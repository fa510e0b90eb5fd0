"""Database + virtine-UDF tests (the Section 7.1 scenario).

UDFs under test are module-level functions (the virtine slicer reads
their source).
"""

import pytest

from repro.apps.database import Database, DatabaseError
from repro.apps.database.sql import SqlError, parse
from repro.apps.database.storage import Column, StorageError, Table

RATE_TABLE = {"basic": 1.0, "premium": 1.5}


def double_salary(salary):
    return salary * 2


def apply_rate(salary, tier):
    return salary * RATE_TABLE[tier]


def evil_udf(value):
    RATE_TABLE["basic"] = 9999.0  # attempt to corrupt engine state
    return value


def crashing_udf(value):
    return value[10]  # type confusion: crashes on ints


def classify(salary):
    if salary >= 100000:
        return "high"
    if salary >= 50000:
        return "mid"
    return "low"


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE emp (name TEXT, salary INT, tier TEXT)")
    database.execute(
        "INSERT INTO emp VALUES ('ada', 120000, 'premium'), "
        "('bob', 60000, 'basic'), ('cam', 30000, 'basic')"
    )
    return database


class TestSqlParsing:
    def test_create(self):
        statement = parse("CREATE TABLE t (a INT, b TEXT)")
        assert statement.table == "t"
        assert statement.columns == (("a", "INT"), ("b", "TEXT"))

    def test_select_shape(self):
        statement = parse("SELECT a, f(b) AS fb FROM t WHERE a > 1 LIMIT 5")
        assert statement.table == "t"
        assert statement.limit == 5
        assert statement.items[1].alias == "fb"

    def test_string_escapes(self):
        statement = parse("INSERT INTO t VALUES ('it''s')")
        assert statement.rows[0][0].value == "it's"

    def test_operator_precedence(self):
        statement = parse("SELECT 1 + 2 * 3 FROM t")
        expr = statement.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_bad_syntax(self):
        with pytest.raises(SqlError):
            parse("SELEC * FROM t")
        with pytest.raises(SqlError):
            parse("SELECT FROM t")


class TestStorage:
    def test_schema_enforced(self):
        table = Table("t", (Column("a", "INT"),))
        with pytest.raises(StorageError):
            table.insert(("not an int",))

    def test_arity_enforced(self):
        table = Table("t", (Column("a", "INT"), Column("b", "TEXT")))
        with pytest.raises(StorageError):
            table.insert((1,))

    def test_int_promotes_to_float(self):
        table = Table("t", (Column("x", "FLOAT"),))
        table.insert((3,))
        assert table.rows[0] == (3.0,)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            Table("t", (Column("a", "INT"), Column("a", "INT")))


class TestQueries:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM emp")
        assert len(result) == 3
        assert result.column_names == ("name", "salary", "tier")

    def test_where_filter(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary >= 60000")
        assert sorted(result.rows) == [("ada",), ("bob",)]

    def test_computed_column(self, db):
        result = db.execute("SELECT name, salary * 2 AS double FROM emp WHERE name = 'bob'")
        assert result.rows == [("bob", 120000)]

    def test_builtin_functions(self, db):
        result = db.execute("SELECT upper(name) FROM emp WHERE length(name) = 3 LIMIT 1")
        assert result.rows[0][0] == "ADA"

    def test_logical_operators(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE salary > 20000 AND NOT tier = 'premium'"
        )
        assert sorted(result.rows) == [("bob",), ("cam",)]

    def test_limit(self, db):
        assert len(db.execute("SELECT * FROM emp LIMIT 2")) == 2

    def test_unknown_table(self, db):
        with pytest.raises(DatabaseError, match="no such table"):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column(self, db):
        with pytest.raises(DatabaseError):
            db.execute("SELECT bonus FROM emp")

    def test_division_by_zero(self, db):
        with pytest.raises(DatabaseError, match="division"):
            db.execute("SELECT salary / 0 FROM emp")

    def test_null_propagates(self, db):
        result = db.execute("SELECT NULL + 1 FROM emp LIMIT 1")
        assert result.rows[0][0] is None


class TestVirtineUdfs:
    def test_results_match_trusted(self, db):
        db.register_udf("double_t", double_salary, isolation="trusted")
        db.register_udf("double_v", double_salary, isolation="virtine")
        trusted = db.execute("SELECT double_t(salary) FROM emp").rows
        isolated = db.execute("SELECT double_v(salary) FROM emp").rows
        assert trusted == isolated

    def test_udf_in_where_clause(self, db):
        db.register_udf("classify", classify)
        result = db.execute("SELECT name FROM emp WHERE classify(salary) = 'mid'")
        assert result.rows == [("bob",)]

    def test_udf_reads_global_snapshot(self, db):
        db.register_udf("apply_rate", apply_rate)
        result = db.execute("SELECT apply_rate(salary, tier) FROM emp WHERE name = 'ada'")
        assert result.rows[0][0] == 180000.0

    def test_malicious_udf_cannot_corrupt_host_state(self, db):
        """The paper's point: disjoint address spaces mean a hostile UDF
        mutates only its own copy of engine state."""
        db.register_udf("evil", evil_udf)
        db.execute("SELECT evil(salary) FROM emp")
        assert RATE_TABLE["basic"] == 1.0  # host copy untouched

    def test_trusted_udf_shows_the_baseline_danger(self, db):
        """Contrast: the same UDF registered trusted *does* corrupt."""
        db.register_udf("evil_trusted", evil_udf, isolation="trusted")
        try:
            db.execute("SELECT evil_trusted(salary) FROM emp LIMIT 1")
            assert RATE_TABLE["basic"] == 9999.0
        finally:
            RATE_TABLE["basic"] = 1.0

    def test_crashing_udf_aborts_query_not_engine(self, db):
        db.register_udf("crashy", crashing_udf)
        with pytest.raises(DatabaseError, match="crashed in its virtine"):
            db.execute("SELECT crashy(salary) FROM emp")
        # Engine still healthy.
        assert len(db.execute("SELECT * FROM emp")) == 3

    def test_unregistered_function(self, db):
        with pytest.raises(DatabaseError, match="no such function"):
            db.execute("SELECT mystery(salary) FROM emp")

    def test_duplicate_registration(self, db):
        db.register_udf("dup", double_salary)
        with pytest.raises(DatabaseError):
            db.register_udf("dup", double_salary)

    def test_virtine_udf_uses_snapshots(self, db):
        """Per-row invocations after the first restore from snapshot."""
        db.register_udf("double", double_salary)
        db.execute("SELECT double(salary) FROM emp")
        assert db.wasp.snapshots.restores >= 2  # rows 2 and 3 ran warm

    def test_invocation_counts(self, db):
        db.register_udf("double", double_salary)
        db.execute("SELECT double(salary) FROM emp")
        assert db.udfs.invocations["double"] == 3

    def test_isolation_overhead_is_bounded(self, db):
        """Virtine UDFs cost more, but within the amortisable regime."""
        db.register_udf("t", double_salary, isolation="trusted")
        db.register_udf("v", double_salary, isolation="virtine")
        db.execute("SELECT v(salary) FROM emp")  # warm snapshot
        start = db.wasp.clock.cycles
        db.execute("SELECT t(salary) FROM emp")
        trusted_cycles = db.wasp.clock.cycles - start
        start = db.wasp.clock.cycles
        db.execute("SELECT v(salary) FROM emp")
        virtine_cycles = db.wasp.clock.cycles - start
        assert virtine_cycles > trusted_cycles
        # Per row: roughly the snapshot-restore floor, not a cold boot.
        per_row = (virtine_cycles - trusted_cycles) / 3
        from repro.units import cycles_to_us

        assert cycles_to_us(per_row) < 60.0
