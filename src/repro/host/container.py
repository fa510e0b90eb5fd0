"""Namespace/seccomp container sandbox (the booyum point on the spectrum).

Models the booyum-style sandbox from SNIPPETS.md: a fresh process
cloned into its own mount/PID/net/IPC/UTS namespaces, a cgroup, a
``pivot_root``-ed minimal rootfs, and a seccomp-BPF filter compiled from
the virtine's hypercall policy.  Creation is mid-range (cheaper than a
full container image pull, far dearer than a pthread or a pooled
virtine shell); each interposed interaction pays an IPC round trip into
the sandboxed process plus the seccomp chain walk; and a policy
violation is *terminal*: seccomp's kill action delivers an uncatchable
SIGSYS, modelled as :class:`~repro.host.backend.IsolationKill` so guest
``except Exception`` blocks cannot swallow it.  The launch verdict is
the same :class:`~repro.wasp.virtine.PolicyKill` every other backend
produces -- the conformance contract.

The filter itself is an explicit little state machine
(:class:`SeccompFilter`): rules are laid out in a *seeded* deterministic
order, evaluation walks the chain charging per-rule costs, and the
Hypothesis suite drives it to pin determinism and policy agreement.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.host.backend import BackendCaps, IsolationBackend, IsolationKill
from repro.host.kernel import HostKernel
from repro.wasp.hypercall import Hypercall, HypercallDenied
from repro.wasp.policy import BitmaskPolicy, DefaultDenyPolicy, PermissivePolicy, Policy
from repro.wasp.virtine import Virtine

#: Namespaces the sandbox unshares (booyum uses exactly this set).
NAMESPACES = ("mnt", "pid", "net", "ipc", "uts")


class SeccompKill(IsolationKill):
    """SECCOMP_RET_KILL_PROCESS: the violating sandbox dies, uncatchably."""


class SeccompAction(enum.Enum):
    """What a matched rule (or the default) does to the syscall."""

    ALLOW = "allow"
    KILL = "kill"


@dataclass(frozen=True)
class SeccompRule:
    """One BPF chain entry: match a syscall number, take an action."""

    nr: Hypercall
    action: SeccompAction


class SeccompFilter:
    """A compiled seccomp-BPF program for one virtine's policy.

    Static policies (default-deny, permissive, bitmask) compile to a
    fixed rule chain whose *order* is seeded-shuffled -- deterministic
    under the same seed, different across seeds, and never semantically
    significant (each number appears once).  Stateful policies
    (one-shot, dynamic-disable) cannot be frozen into a chain; they
    compile to a dynamic filter that charges a full chain walk and
    defers the verdict to the live policy object, exactly as a
    user-notification seccomp filter would bounce to a supervisor.
    """

    def __init__(self, rules: list[SeccompRule], costs,
                 default_action: SeccompAction = SeccompAction.KILL,
                 dynamic: bool = False) -> None:
        self.rules = list(rules)
        self.costs = costs
        self.default_action = default_action
        #: True when the chain cannot answer alone and the live policy
        #: object is consulted (stateful policies).
        self.dynamic = dynamic
        self.evaluations = 0

    @classmethod
    def from_policy(cls, policy: Policy, costs, seed: int = 0) -> "SeccompFilter":
        """Compile a policy into a chain (seeded deterministic layout)."""
        static = isinstance(policy, (DefaultDenyPolicy, PermissivePolicy,
                                     BitmaskPolicy))
        numbers = list(Hypercall)
        random.Random(seed).shuffle(numbers)
        if not static:
            # One placeholder rule per number keeps the walk cost honest;
            # verdicts come from the live policy.
            return cls([SeccompRule(nr, SeccompAction.ALLOW) for nr in numbers],
                       costs, dynamic=True)
        rules = []
        for nr in numbers:
            allowed = nr is Hypercall.EXIT or policy.allows(nr)
            rules.append(SeccompRule(
                nr, SeccompAction.ALLOW if allowed else SeccompAction.KILL))
        return cls(rules, costs)

    def load_cycles(self) -> int:
        """Installing the compiled program (charged once, at creation)."""
        return len(self.rules) * self.costs.SECCOMP_LOAD_PER_RULE

    def evaluate(self, nr: Hypercall,
                 policy: Policy | None = None) -> tuple[SeccompAction, int]:
        """Walk the chain for one syscall: (action, rules walked).

        A dynamic filter walks the whole chain (the BPF program always
        runs to its decision) and asks the live ``policy``; EXIT is
        always allowed, matching the always-permitted exit hypercall.
        """
        self.evaluations += 1
        if self.dynamic:
            walked = len(self.rules)
            allowed = nr is Hypercall.EXIT or (
                policy is not None and policy.allows(nr))
            return (SeccompAction.ALLOW if allowed else SeccompAction.KILL,
                    walked)
        for walked, rule in enumerate(self.rules, start=1):
            if rule.nr is nr:
                return rule.action, walked
        return self.default_action, len(self.rules)

    def eval_cycles(self, walked: int) -> int:
        return (self.costs.SECCOMP_EVAL_BASE
                + walked * self.costs.SECCOMP_EVAL_PER_RULE)


class ContainerBackend(IsolationBackend):
    """Namespace/seccomp sandboxes: mid-range creation, kill on violation."""

    name = "container"
    caps = BackendCaps(snapshot=False, pooled=True, in_process=False,
                       kill_on_violation=True)

    def __init__(self, kernel: HostKernel, seed: int = 0) -> None:
        super().__init__(kernel)
        #: Seeds the seccomp chain layout (and nothing else): the same
        #: seed reproduces the same rule order and walk costs.
        self.seed = seed
        self.kills = 0

    # -- cost classes ------------------------------------------------------
    def creation_cycles(self) -> int:
        # fork + one unshare per namespace + cgroup + pivot_root + the
        # filter load for a full-length chain (the per-virtine recompile
        # against the live policy reuses the installed program slot).
        return int(
            self.costs.PROCESS_SPAWN
            + len(NAMESPACES) * self.costs.NAMESPACE_CLONE
            + self.costs.CGROUP_SETUP
            + self.costs.ROOTFS_PIVOT
            + len(Hypercall) * self.costs.SECCOMP_LOAD_PER_RULE
        )

    def teardown_cycles(self) -> int:
        # Reap the process and tear down its namespaces/cgroup.
        return self.costs.syscall() + self.costs.CONTEXT_SWITCH

    def enter_cycles(self) -> int:
        # IPC into the sandboxed process: one syscall (write the request)
        # plus the scheduler switch onto it, filtered on the way in.
        return (self.costs.syscall() + self.costs.CONTEXT_SWITCH
                + self._entry_filter_cycles())

    def exit_cycles(self) -> int:
        return self.costs.CONTEXT_SWITCH + self.costs.syscall()

    def _entry_filter_cycles(self) -> int:
        """The IPC entry syscall walks the sandbox's filter too."""
        return (self.costs.SECCOMP_EVAL_BASE
                + len(Hypercall) * self.costs.SECCOMP_EVAL_PER_RULE)

    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        filt: SeccompFilter | None = getattr(virtine, "seccomp_filter", None)
        if filt is None:
            walked = len(Hypercall)
            eval_cost = (self.costs.SECCOMP_EVAL_BASE
                         + walked * self.costs.SECCOMP_EVAL_PER_RULE)
        else:
            # Cost-only walk: the verdict comes from the shared policy
            # gate downstream (a stateful policy must be consulted once,
            # not once per layer).
            _, walked = filt.evaluate(nr)
            eval_cost = filt.eval_cycles(walked)
        return self.costs.syscall() + self.costs.CONTEXT_SWITCH + eval_cost

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        return self.costs.CONTEXT_SWITCH + self.costs.syscall()

    # -- lifecycle ---------------------------------------------------------
    def prepare_launch(self, virtine: Virtine) -> None:
        """Compile + install the virtine's policy as this sandbox's filter."""
        filt = SeccompFilter.from_policy(virtine.policy, self.costs,
                                         seed=self.seed)
        self.clock.advance(filt.load_cycles())
        virtine.seccomp_filter = filt

    def on_denied(self, virtine: Virtine, nr: Hypercall,
                  denied: HypercallDenied) -> None:
        """Seccomp semantics: a denied syscall kills the sandbox.

        The guest never observes the denial -- by the time the filter
        says KILL, the process is already dead.  The SIGSYS delivery is
        the last thing charged to the sandbox.
        """
        self.kills += 1
        self.clock.advance(self.costs.SIGSYS_TRAP)
        raise SeccompKill(
            f"seccomp killed the sandbox: {nr.name} disallowed", nr=nr,
        ) from denied
