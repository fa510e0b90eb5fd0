"""The mini database engine: DDL, DML, and SELECT with UDFs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.database import sql
from repro.apps.database.storage import Catalog, Column, StorageError, Table
from repro.apps.database.udf import UdfError, UdfRegistry
from repro.wasp.hypervisor import Wasp


class DatabaseError(Exception):
    """Query-level failures (schema, unknown names, UDF crashes)."""


#: Cycles charged per row visited by a scan (tuple fetch + slot checks).
ROW_SCAN_COST = 45
#: Cycles charged per expression evaluated over a row.
EXPR_EVAL_COST = 12

_BUILTIN_FUNCTIONS: dict[str, Callable] = {
    "upper": lambda s: s.upper(),
    "lower": lambda s: s.lower(),
    "length": lambda s: len(s),
    "abs": lambda n: abs(n),
}


@dataclass
class ResultSet:
    """Rows produced by a SELECT."""

    column_names: tuple[str, ...]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)


class Database:
    """A tiny single-user SQL engine with virtine-isolated UDFs."""

    def __init__(self, wasp: Wasp | None = None) -> None:
        self.wasp = wasp if wasp is not None else Wasp()
        self.catalog = Catalog()
        self.udfs = UdfRegistry(self.wasp)
        self.rows_scanned = 0

    # -- API ------------------------------------------------------------------
    def register_udf(self, name: str, fn: Callable, isolation: str = "virtine") -> None:
        """Register a UDF (see :class:`UdfRegistry`)."""
        try:
            self.udfs.register(name, fn, isolation=isolation)
        except UdfError as error:
            raise DatabaseError(str(error)) from error

    def execute(self, statement_sql: str) -> ResultSet | int:
        """Run one statement: SELECT -> :class:`ResultSet`, else rowcount."""
        try:
            statement = sql.parse(statement_sql)
        except sql.SqlError as error:
            raise DatabaseError(f"syntax error: {error}") from error
        try:
            if isinstance(statement, sql.CreateStmt):
                return self._create(statement)
            if isinstance(statement, sql.InsertStmt):
                return self._insert(statement)
            return self._select(statement)
        except (StorageError, UdfError) as error:
            raise DatabaseError(str(error)) from error

    # -- statements ------------------------------------------------------------------
    def _create(self, statement: sql.CreateStmt) -> int:
        columns = [Column(name, type_name) for name, type_name in statement.columns]
        self.catalog.create(statement.table, columns)
        return 0

    def _insert(self, statement: sql.InsertStmt) -> int:
        table = self.catalog.get(statement.table)
        for row_exprs in statement.rows:
            values = tuple(self._eval(expr, table=None, row=None) for expr in row_exprs)
            table.insert(values)
        return len(statement.rows)

    def _select(self, statement: sql.SelectStmt) -> ResultSet:
        table = self.catalog.get(statement.table)
        names = self._result_names(statement, table)
        out: list[tuple] = []
        for row in table.scan():
            self.rows_scanned += 1
            self.wasp.clock.advance(ROW_SCAN_COST)
            if statement.where is not None:
                if not _truthy(self._eval(statement.where, table, row)):
                    continue
            projected: list[Any] = []
            for item in statement.items:
                if item.star:
                    projected.extend(row)
                else:
                    projected.append(self._eval(item.expr, table, row))
            out.append(tuple(projected))
            if statement.limit is not None and len(out) >= statement.limit:
                break
        return ResultSet(column_names=names, rows=out)

    def _result_names(self, statement: sql.SelectStmt, table: Table) -> tuple[str, ...]:
        names: list[str] = []
        for item in statement.items:
            if item.star:
                names.extend(column.name for column in table.columns)
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, sql.ColRef):
                names.append(item.expr.name)
            elif isinstance(item.expr, sql.FuncCall):
                names.append(item.expr.name)
            else:
                names.append(f"col{len(names)}")
        return tuple(names)

    # -- expression evaluation ----------------------------------------------------------
    def _eval(self, expr: Any, table: Table | None, row: tuple | None) -> Any:
        self.wasp.clock.advance(EXPR_EVAL_COST)
        if isinstance(expr, sql.Lit):
            return expr.value
        if isinstance(expr, sql.ColRef):
            if table is None or row is None:
                raise DatabaseError(f"column {expr.name!r} used outside a query")
            return row[table.column_index(expr.name)]
        if isinstance(expr, sql.UnOp):
            value = self._eval(expr.operand, table, row)
            if expr.op == "-":
                return -value
            if expr.op == "NOT":
                return not _truthy(value)
        if isinstance(expr, sql.BinOp):
            return self._binop(expr, table, row)
        if isinstance(expr, sql.FuncCall):
            args = tuple(self._eval(a, table, row) for a in expr.args)
            builtin = _BUILTIN_FUNCTIONS.get(expr.name.lower())
            if builtin is not None:
                return builtin(*args)
            return self.udfs.call(expr.name, args)
        raise DatabaseError(f"cannot evaluate {expr!r}")

    def _binop(self, expr: sql.BinOp, table: Table | None, row: tuple | None) -> Any:
        if expr.op == "AND":
            return _truthy(self._eval(expr.left, table, row)) and _truthy(
                self._eval(expr.right, table, row)
            )
        if expr.op == "OR":
            return _truthy(self._eval(expr.left, table, row)) or _truthy(
                self._eval(expr.right, table, row)
            )
        left = self._eval(expr.left, table, row)
        right = self._eval(expr.right, table, row)
        if expr.op in ("=", "!="):
            equal = left == right
            return equal if expr.op == "=" else not equal
        if left is None or right is None:
            return None  # SQL-ish: NULL propagates through comparisons/arith
        ops: dict[str, Callable[[Any, Any], Any]] = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
        }
        try:
            return ops[expr.op](left, right)
        except TypeError as error:
            raise DatabaseError(f"type error in {expr.op}: {error}") from error
        except ZeroDivisionError as error:
            raise DatabaseError("division by zero") from error


def _truthy(value: Any) -> bool:
    return bool(value)
