"""Tests for the database substrate."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.db import Column, Database, ForeignKey, Schema, Table, ValueGenerator
from repro.errors import ExecutionError, SchemaError

from tests.fixtures import bank_database, bank_schema


class TestSchemaModel:
    def test_lookup_case_insensitive(self):
        schema = bank_schema()
        assert schema.table("CLIENT").name == "client"
        assert schema.table("client").column("NAME").name == "name"

    def test_missing_table_raises(self):
        with pytest.raises(SchemaError):
            bank_schema().table("nope")

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            bank_schema().table("client").column("nope")

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=())

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=(Column("a"), Column("A")))

    def test_duplicate_tables_rejected(self):
        table = Table(name="t", columns=(Column("a"),))
        with pytest.raises(SchemaError):
            Schema(name="s", tables=(table, table))

    def test_dangling_foreign_key_rejected(self):
        table = Table(name="t", columns=(Column("a"),))
        with pytest.raises(SchemaError):
            Schema(
                name="s",
                tables=(table,),
                foreign_keys=(ForeignKey("t", "a", "t", "missing"),),
            )

    def test_invalid_column_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "BLOB")

    def test_column_keys_order(self):
        keys = bank_schema().column_keys()
        assert keys[0] == "client.client_id"
        assert "loan.status" in keys

    def test_join_edge_lookup(self):
        schema = bank_schema()
        edge = schema.join_edge("client", "account")
        assert edge is not None
        assert edge.render() == "account.client_id = client.client_id"
        assert schema.join_edge("client", "loan") is None

    def test_primary_key_property(self):
        assert bank_schema().table("client").primary_key.name == "client_id"

    def test_rename_copies(self):
        renamed = bank_schema().rename("other")
        assert renamed.name == "other"
        assert renamed.tables == bank_schema().tables


class TestSchemaIndex:
    """The lookup indexes are invisible apart from their speed."""

    def test_lookups_ignore_case(self):
        schema = bank_schema()
        for spelling in ("loan", "LOAN", "Loan"):
            assert schema.has_table(spelling)
            table = schema.table(spelling)
            assert table is schema.tables[2]
            for column in table.columns:
                for name in (column.name, column.name.upper(), column.name.title()):
                    assert table.has_column(name)
                    assert table.column(name) is column

    def test_misses_raise_the_same_message(self):
        schema = bank_schema()
        with pytest.raises(SchemaError, match=r"^no table 'Nope' in schema 'mini_bank'$"):
            schema.table("Nope")
        with pytest.raises(
            SchemaError, match=r"^no column 'Nope' in table 'client'$"
        ):
            schema.table("client").column("Nope")

    @given(st.sampled_from(["client", "CLIENT", "loan", "x", "", "client.name"]),
           st.sampled_from(["name", "NAME", "amount", "status", "y", ""]))
    def test_has_agrees_with_lookup(self, table_name, column_name):
        schema = bank_schema()
        try:
            table = schema.table(table_name)
        except SchemaError:
            assert not schema.has_table(table_name)
            return
        assert schema.has_table(table_name)
        try:
            table.column(column_name)
        except SchemaError:
            assert not table.has_column(column_name)
        else:
            assert table.has_column(column_name)

    def test_equality_hash_and_replace_ignore_the_index(self):
        fresh, used = bank_schema(), bank_schema()
        used.table("client").column("name")
        used.join_edge("client", "account")
        assert fresh == used and hash(fresh) == hash(used)
        assert fresh.tables[0] == used.tables[0]
        assert hash(fresh.tables[0]) == hash(used.tables[0])
        assert repr(fresh) == repr(used)

        table = used.table("client")
        narrowed = dataclasses.replace(table, columns=table.columns[:2])
        assert not narrowed.has_column(table.columns[2].name)
        assert narrowed.column(table.columns[1].name.upper()) is table.columns[1]
        assert dataclasses.replace(table) == table

        renamed = used.rename("other")
        assert renamed.table("CLIENT") is table
        assert renamed.join_edge("account", "client") is used.join_edge("client", "account")
        assert renamed != used

    def test_join_edge_returns_the_first_declared_key(self):
        a = Table(name="a", columns=(Column("id", "INTEGER"), Column("b_id", "INTEGER")))
        b = Table(name="b", columns=(Column("id", "INTEGER"), Column("a_id", "INTEGER")))
        b_to_a = ForeignKey("b", "a_id", "a", "id")
        a_to_b = ForeignKey("a", "b_id", "b", "id")
        for keys in ((b_to_a, a_to_b), (a_to_b, b_to_a)):
            schema = Schema(name="s", tables=(a, b), foreign_keys=keys)
            for left, right in (("a", "b"), ("B", "A"), ("A", "b")):
                assert schema.join_edge(left, right) is keys[0]
            assert schema.join_edge("a", "a") is None
        looped = Schema(
            name="s", tables=(a,), foreign_keys=(ForeignKey("A", "b_id", "a", "id"),)
        )
        assert looped.join_edge("a", "A") is looped.foreign_keys[0]


class TestDatabase:
    def test_execute_simple(self):
        db = bank_database()
        rows = db.execute("SELECT name FROM client WHERE district = 'Jesenik'")
        assert sorted(row[0] for row in rows) == ["Maria Garcia", "Sarah Martinez"]

    def test_execute_join(self):
        db = bank_database()
        rows = db.execute(
            "SELECT client.name FROM client JOIN account "
            "ON client.client_id = account.client_id WHERE account.balance > 5000"
        )
        assert rows == [("Maria Garcia",)]

    def test_execute_bad_sql_raises(self):
        with pytest.raises(ExecutionError):
            bank_database().execute("SELECT nothing FROM nowhere")

    def test_is_executable(self):
        db = bank_database()
        assert db.is_executable("SELECT * FROM loan")
        assert not db.is_executable("SELECT * FROM missing_table")

    def test_row_count(self):
        assert bank_database().row_count("client") == 4

    def test_total_value_count(self):
        db = bank_database()
        assert db.total_value_count() == 4 * 4 + 4 * 4 + 3 * 4

    def test_representative_values_limit(self):
        db = bank_database()
        values = db.representative_values("client", "gender", k=2)
        assert len(values) == 2
        assert set(values) <= {"M", "F"}

    def test_representative_values_skip_null(self):
        schema = Schema(
            name="s",
            tables=(Table(name="t", columns=(Column("a", "TEXT"),)),),
        )
        db = Database.from_schema(schema, {"t": [(None,), ("x",)]})
        assert db.representative_values("t", "a") == ["x"]

    def test_iter_text_values_excludes_numeric(self):
        db = bank_database()
        columns = {(t, c) for t, c, _ in db.iter_text_values()}
        assert ("client", "name") in columns
        assert ("account", "balance") not in columns

    def test_insert_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            bank_database().insert_rows({"ghost": [(1,)]})

    def test_insert_bad_arity_raises(self):
        with pytest.raises(ExecutionError):
            bank_database().insert_rows({"client": [(1, "only-two")]})

    def test_clone_with_rows_independent(self):
        db = bank_database()
        clone = db.clone_with_rows({"client": [(9, "Zoe Okafor", "F", "Lima")]})
        assert clone.row_count("client") == 1
        assert db.row_count("client") == 4

    def test_all_rows_snapshot(self):
        snapshot = bank_database().all_rows()
        assert set(snapshot) == {"client", "account", "loan"}
        assert len(snapshot["loan"]) == 3


class TestValueGenerator:
    def test_deterministic_for_same_seed(self):
        first = ValueGenerator(seed=7)
        second = ValueGenerator(seed=7)
        assert [first.person_name() for _ in range(5)] == [
            second.person_name() for _ in range(5)
        ]

    def test_differs_across_seeds(self):
        names_a = [ValueGenerator(seed=1).person_name() for _ in range(3)]
        names_b = [ValueGenerator(seed=2).person_name() for _ in range(3)]
        assert names_a != names_b

    def test_date_format(self):
        date = ValueGenerator(seed=0).date()
        year, month, day = date.split("-")
        assert len(year) == 4 and len(month) == 2 and len(day) == 2

    @given(st.integers(min_value=0, max_value=10_000))
    def test_integer_bounds(self, seed):
        gen = ValueGenerator(seed=seed)
        assert 0 <= gen.integer(0, 10) <= 10

    def test_code_width(self):
        assert len(ValueGenerator(seed=3).code("B", 4)) == 5

    def test_sample_never_exceeds_population(self):
        gen = ValueGenerator(seed=0)
        assert len(gen.sample([1, 2], 10)) == 2
