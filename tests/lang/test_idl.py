"""IDL tests: declared interfaces, generated validation, stubs, policy."""

import pytest

from repro.lang.idl import IdlError, Interface, Param
from repro.runtime.image import ImageBuilder
from repro.wasp import Hypercall, Wasp
from repro.wasp.hypercall import HypercallError, HypercallRequest
from repro.wasp.virtine import VirtineCrash


def kv_interface():
    return (
        Interface("kvstore")
        .define("get", params=[Param("key", str, max_len=64)], returns=bytes)
        .define("put", params=[Param("key", str, max_len=64),
                               Param("value", bytes, max_len=4096)])
        .define("size", returns=int)
        .define("seed", returns=bytes, once=True)
    )


class TestDefinition:
    def test_duplicate_method(self):
        with pytest.raises(IdlError):
            Interface("x").define("a").define("a")

    def test_unbounded_bytes_rejected(self):
        with pytest.raises(IdlError, match="max_len"):
            Param("data", bytes)

    def test_unsupported_type(self):
        with pytest.raises(IdlError):
            Param("cb", dict)

    def test_unsupported_return(self):
        with pytest.raises(IdlError):
            Interface("x").define("f", returns=list)


class FakeVirtine:
    def __init__(self):
        self.resources = {}


def dispatch_for(interface, impls):
    handlers = interface.handlers(impls)
    dispatcher = handlers[Hypercall.INVOKE]
    virtine = FakeVirtine()

    def call(*args):
        return dispatcher(HypercallRequest(nr=Hypercall.INVOKE, args=args, virtine=virtine))

    return call


class TestHostDispatch:
    def impls(self, store):
        return {
            "get": lambda key: store.get(key, b""),
            "put": lambda key, value: store.__setitem__(key, value),
            "size": lambda: len(store),
            "seed": lambda: b"initial",
        }

    def test_roundtrip(self):
        store = {}
        call = dispatch_for(kv_interface(), self.impls(store))
        call("put", "k", b"v")
        assert call("get", "k") == b"v"
        assert call("size") == 1

    def test_missing_implementation(self):
        with pytest.raises(IdlError, match="seed"):
            kv_interface().handlers({"get": lambda k: b""})

    def test_extra_implementation(self):
        interface = Interface("tiny").define("a")
        with pytest.raises(IdlError, match="ghost"):
            interface.handlers({"a": lambda: None, "ghost": lambda: None})

    def test_unknown_selector(self):
        call = dispatch_for(kv_interface(), self.impls({}))
        with pytest.raises(HypercallError, match="ENOSYS"):
            call("drop_table")

    def test_wrong_arity(self):
        call = dispatch_for(kv_interface(), self.impls({}))
        with pytest.raises(HypercallError, match="EINVAL"):
            call("get")

    def test_wrong_type(self):
        call = dispatch_for(kv_interface(), self.impls({}))
        with pytest.raises(HypercallError, match="EINVAL"):
            call("get", 123)

    def test_length_bound(self):
        call = dispatch_for(kv_interface(), self.impls({}))
        with pytest.raises(HypercallError, match="EMSGSIZE"):
            call("put", "k", b"x" * 5000)

    def test_int_range(self):
        interface = Interface("r").define(
            "fd_read", params=[Param("fd", int, min_value=0, max_value=1023)], returns=bytes
        )
        call = dispatch_for(interface, {"fd_read": lambda fd: b"ok"})
        assert call("fd_read", 3) == b"ok"
        with pytest.raises(HypercallError, match="ERANGE"):
            call("fd_read", -1)
        with pytest.raises(HypercallError, match="ERANGE"):
            call("fd_read", 4096)

    def test_bool_is_not_int(self):
        interface = Interface("b").define("f", params=[Param("n", int)])
        call = dispatch_for(interface, {"f": lambda n: None})
        with pytest.raises(HypercallError, match="EINVAL"):
            call("f", True)

    def test_bad_return_type_caught(self):
        interface = Interface("x").define("f", returns=bytes)
        call = dispatch_for(interface, {"f": lambda: "not bytes"})
        with pytest.raises(HypercallError, match="EPROTO"):
            call("f")

    def test_one_shot_enforced(self):
        call = dispatch_for(kv_interface(), self.impls({}))
        assert call("seed") == b"initial"
        with pytest.raises(HypercallError, match="EPERM"):
            call("seed")


class TestEndToEnd:
    def test_virtine_uses_stubs(self):
        wasp = Wasp()
        store = {"greeting": b"hello"}
        interface = kv_interface()

        def entry(env):
            kv = interface.stubs(env)
            value = kv.get("greeting")
            kv.put("reply", value.upper())
            return kv.size()

        image = ImageBuilder().hosted("kv-client", entry)
        result = wasp.launch(
            image,
            policy=interface.policy(),
            handlers=interface.handlers({
                "get": lambda key: store.get(key, b""),
                "put": lambda key, value: store.__setitem__(key, value),
                "size": lambda: len(store),
                "seed": lambda: b"x",
            }),
        )
        assert result.value == 2
        assert store["reply"] == b"HELLO"

    def test_stub_validates_before_crossing(self):
        wasp = Wasp()
        interface = Interface("strict").define(
            "write", params=[Param("data", bytes, max_len=16)]
        )

        def entry(env):
            stubs = interface.stubs(env)
            with pytest.raises(HypercallError):
                stubs.write(b"far too long for the declared bound")
            return "guarded"

        image = ImageBuilder().hosted("strict-client", entry)
        result = wasp.launch(
            image,
            policy=interface.policy(),
            handlers=interface.handlers({"write": lambda data: None}),
        )
        assert result.value == "guarded"

    def test_policy_is_least_privilege(self):
        interface = kv_interface()
        policy = interface.policy()
        assert policy.allows(Hypercall.INVOKE)
        assert not policy.allows(Hypercall.OPEN)
        assert not policy.allows(Hypercall.SEND)

    def test_undeclared_method_kills_virtine(self):
        wasp = Wasp()
        interface = Interface("minimal").define("ping", returns=str)

        def entry(env):
            return env.hypercall(Hypercall.INVOKE, "shutdown_host")

        image = ImageBuilder().hosted("attacker", entry)
        with pytest.raises(VirtineCrash, match="ENOSYS"):
            wasp.launch(
                image,
                policy=interface.policy(),
                handlers=interface.handlers({"ping": lambda: "pong"}),
            )
