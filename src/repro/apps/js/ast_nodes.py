"""AST node definitions for the JavaScript subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class Node:
    """Base AST node."""

    __slots__ = ()


# -- expressions ------------------------------------------------------------


@dataclass(frozen=True)
class NumberLit(Node):
    value: float


@dataclass(frozen=True)
class StringLit(Node):
    value: str


@dataclass(frozen=True)
class BoolLit(Node):
    value: bool


@dataclass(frozen=True)
class NullLit(Node):
    pass


@dataclass(frozen=True)
class UndefinedLit(Node):
    pass


@dataclass(frozen=True)
class Identifier(Node):
    name: str


@dataclass(frozen=True)
class ThisExpr(Node):
    pass


@dataclass(frozen=True)
class ArrayLit(Node):
    elements: tuple[Node, ...]


@dataclass(frozen=True)
class ObjectLit(Node):
    entries: tuple[tuple[str, Node], ...]


@dataclass(frozen=True)
class Unary(Node):
    op: str
    operand: Node


@dataclass(frozen=True)
class Update(Node):
    """Prefix/postfix ++ and --."""

    op: str
    target: Node
    prefix: bool


@dataclass(frozen=True)
class Binary(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Logical(Node):
    op: str  # && or ||
    left: Node
    right: Node


@dataclass(frozen=True)
class Conditional(Node):
    test: Node
    consequent: Node
    alternate: Node


@dataclass(frozen=True)
class Assign(Node):
    op: str  # =, +=, -=, ...
    target: Node
    value: Node


@dataclass(frozen=True)
class Call(Node):
    callee: Node
    args: tuple[Node, ...]


@dataclass(frozen=True)
class New(Node):
    callee: Node
    args: tuple[Node, ...]


@dataclass(frozen=True)
class Member(Node):
    """``obj.name`` (computed=False) or ``obj[expr]`` (computed=True)."""

    obj: Node
    prop: Any  # str when not computed, Node when computed
    computed: bool


@dataclass(frozen=True)
class FunctionExpr(Node):
    name: str | None
    params: tuple[str, ...]
    body: tuple[Node, ...]


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class ExprStmt(Node):
    expr: Node


@dataclass(frozen=True)
class VarDecl(Node):
    kind: str  # var / let / const
    declarations: tuple[tuple[str, Node | None], ...]


@dataclass(frozen=True)
class FunctionDecl(Node):
    name: str
    params: tuple[str, ...]
    body: tuple[Node, ...]


@dataclass(frozen=True)
class Return(Node):
    value: Node | None


@dataclass(frozen=True)
class If(Node):
    test: Node
    consequent: Node
    alternate: Node | None


@dataclass(frozen=True)
class While(Node):
    test: Node
    body: Node


@dataclass(frozen=True)
class DoWhile(Node):
    body: Node
    test: Node


@dataclass(frozen=True)
class For(Node):
    init: Node | None
    test: Node | None
    update: Node | None
    body: Node


@dataclass(frozen=True)
class ForIn(Node):
    """``for (var k in obj) body`` -- iterates object keys / array indices."""

    var_name: str
    declares: bool
    obj: Node
    body: Node


@dataclass(frozen=True)
class Block(Node):
    statements: tuple[Node, ...]


@dataclass(frozen=True)
class Break(Node):
    pass


@dataclass(frozen=True)
class Continue(Node):
    pass


@dataclass(frozen=True)
class Throw(Node):
    value: Node


@dataclass(frozen=True)
class Try(Node):
    block: Block
    param: str | None
    handler: Block | None
    finalizer: Block | None


@dataclass(frozen=True)
class SwitchCase(Node):
    test: Node | None  # None for `default:`
    body: tuple[Node, ...]


@dataclass(frozen=True)
class Switch(Node):
    discriminant: Node
    cases: tuple[SwitchCase, ...]


@dataclass(frozen=True)
class Program(Node):
    body: tuple[Node, ...]
