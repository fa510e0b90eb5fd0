"""Table storage for the mini database."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

#: Supported column types and their Python representations.
COLUMN_TYPES = {
    "INT": int,
    "FLOAT": float,
    "TEXT": str,
    "BLOB": bytes,
    "BOOL": bool,
}


class StorageError(Exception):
    """Schema violations and catalog errors."""


@dataclass(frozen=True)
class Column:
    name: str
    type_name: str

    def __post_init__(self) -> None:
        if self.type_name not in COLUMN_TYPES:
            raise StorageError(f"unknown column type {self.type_name!r}")

    @property
    def python_type(self) -> type:
        return COLUMN_TYPES[self.type_name]

    def check(self, value: Any) -> Any:
        """Validate (and mildly coerce) one cell value."""
        if value is None:
            return None
        expected = self.python_type
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if expected is int and isinstance(value, bool):
            raise StorageError(f"column {self.name}: BOOL is not INT")
        if not isinstance(value, expected):
            raise StorageError(
                f"column {self.name}: expected {self.type_name}, "
                f"got {type(value).__name__}"
            )
        return value


@dataclass
class Table:
    """A heap of rows with a fixed schema."""

    name: str
    columns: tuple[Column, ...]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"table {self.name}: duplicate column names")

    def column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise StorageError(f"table {self.name}: no column {name!r}")

    def insert(self, values: tuple) -> None:
        if len(values) != len(self.columns):
            raise StorageError(
                f"table {self.name}: expected {len(self.columns)} values, "
                f"got {len(values)}"
            )
        checked = tuple(
            column.check(value) for column, value in zip(self.columns, values)
        )
        self.rows.append(checked)

    def scan(self) -> Iterator[tuple]:
        yield from self.rows

    def __len__(self) -> int:
        return len(self.rows)


class Catalog:
    """Named tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create(self, name: str, columns: list[Column]) -> Table:
        key = name.lower()
        if key in self._tables:
            raise StorageError(f"table {name!r} already exists")
        table = Table(name=name, columns=tuple(columns))
        self._tables[key] = table
        return table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise StorageError(f"no such table: {name!r}") from None
