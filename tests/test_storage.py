"""Storage-engine tests: schemas, tables, indexes, catalog, stats."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, IntegrityError
from repro.storage import (
    BOOLEAN,
    DATE,
    DECIMAL,
    FLOAT,
    TIMESTAMP,
    Catalog,
    Column,
    DataType,
    Fragment,
    HashIndex,
    INTEGER,
    OrderedIndex,
    Table,
    TableSchema,
    TypeKind,
    VARCHAR,
    analyze_table,
)
from repro.storage.stats import analyze_rows
from repro.storage.types import ANY


def make_schema(name="t", pk=("id",)):
    return TableSchema(
        name,
        [
            Column("id", INTEGER, nullable=False),
            Column("name", VARCHAR),
            Column("grp", INTEGER),
        ],
        list(pk),
    )


class TestTableSchema:
    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column_index("ID") == 0
        assert schema.column("NAME").name == "name"

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            make_schema().column_index("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", INTEGER), Column("A", INTEGER)])

    def test_pk_must_exist(self):
        with pytest.raises(CatalogError):
            make_schema(pk=("missing",))

    def test_validate_row_coerces(self):
        schema = make_schema()
        row = schema.validate_row(["1", 42, None])
        assert row == (1, "42", None)

    def test_validate_row_wrong_arity(self):
        with pytest.raises(IntegrityError):
            make_schema().validate_row([1])

    def test_not_null_enforced(self):
        with pytest.raises(IntegrityError):
            make_schema().validate_row([None, "x", 1])

    def test_row_from_mapping_defaults(self):
        schema = TableSchema(
            "t", [Column("a", INTEGER), Column("b", VARCHAR, default="d")]
        )
        assert schema.row_from_mapping({"a": 1}) == (1, "d")

    def test_row_from_mapping_unknown_column(self):
        with pytest.raises(CatalogError):
            make_schema().row_from_mapping({"zzz": 1})

    def test_key_of(self):
        schema = make_schema()
        assert schema.key_of((7, "x", 1)) == (7,)
        no_pk = make_schema(pk=())
        assert no_pk.key_of((7, "x", 1)) is None


class TestTable:
    def test_insert_and_scan(self):
        table = Table(make_schema())
        rid1 = table.insert([1, "a", 10])
        rid2 = table.insert([2, "b", 20])
        assert rid1 != rid2
        assert [row for _, row in table.scan()] == [(1, "a", 10), (2, "b", 20)]
        assert len(table) == 2

    def test_pk_uniqueness(self):
        table = Table(make_schema())
        table.insert([1, "a", 10])
        with pytest.raises(IntegrityError):
            table.insert([1, "dup", 20])
        assert len(table) == 1  # failed insert left nothing behind

    def test_pk_null_rejected(self):
        table = Table(make_schema())
        with pytest.raises(IntegrityError):
            table.insert([None, "a", 1])

    def test_delete_returns_old_row(self):
        table = Table(make_schema())
        rid = table.insert([1, "a", 10])
        assert table.delete(rid) == (1, "a", 10)
        assert len(table) == 0
        # PK free again
        table.insert([1, "again", 10])

    def test_update(self):
        table = Table(make_schema())
        rid = table.insert([1, "a", 10])
        old, new = table.update(rid, [1, "b", 11])
        assert old == (1, "a", 10)
        assert new == (1, "b", 11)
        assert table.get(rid) == (1, "b", 11)

    def test_update_pk_conflict_restores_old_state(self):
        table = Table(make_schema())
        rid = table.insert([1, "a", 10])
        table.insert([2, "b", 20])
        with pytest.raises(IntegrityError):
            table.update(rid, [2, "clash", 10])
        assert table.get(rid) == (1, "a", 10)
        assert table.fetch_by_key((1,)) is not None

    def test_restore_for_undo(self):
        table = Table(make_schema())
        rid = table.insert([1, "a", 10])
        row = table.delete(rid)
        table.restore(rid, row)
        assert table.get(rid) == (1, "a", 10)
        with pytest.raises(IntegrityError):
            table.restore(rid, row)

    def test_fetch_by_key(self):
        table = Table(make_schema())
        table.insert([5, "x", 1])
        rid, row = table.fetch_by_key((5,))
        assert row == (5, "x", 1)
        assert table.fetch_by_key((99,)) is None

    def test_truncate(self):
        table = Table(make_schema())
        table.insert([1, "a", 10])
        table.truncate()
        assert len(table) == 0
        table.insert([1, "a", 10])  # PK index was cleared too

    def test_secondary_index_maintenance(self):
        table = Table(make_schema())
        index = table.create_index("by_grp", ["grp"], ordered=True)
        rid = table.insert([1, "a", 10])
        table.insert([2, "b", 10])
        assert len(index.lookup((10,))) == 2
        table.update(rid, [1, "a", 11])
        assert index.lookup((10,)) != index.lookup((11,))
        assert len(index.lookup((11,))) == 1
        table.delete(rid)
        assert len(index.lookup((11,))) == 0

    def test_create_index_on_existing_rows(self):
        table = Table(make_schema())
        table.insert([1, "a", 10])
        table.insert([2, "b", 20])
        index = table.create_index("late", ["grp"])
        assert len(index.lookup((20,))) == 1

    def test_duplicate_index_name(self):
        table = Table(make_schema())
        table.create_index("i", ["grp"])
        with pytest.raises(CatalogError):
            table.create_index("i", ["name"])

    def test_find_index(self):
        table = Table(make_schema())
        table.create_index("i", ["grp"])
        assert table.find_index(["GRP"]) is not None
        assert table.find_index(["name"]) is None


class TestIndexes:
    def test_hash_index_basics(self):
        index = HashIndex("i", "t", ["k"])
        index.insert((1,), 100)
        index.insert((1,), 101)
        assert index.lookup((1,)) == {100, 101}
        index.delete((1,), 100)
        assert index.lookup((1,)) == {101}
        assert index.lookup((9,)) == set()

    def test_unique_violation(self):
        index = HashIndex("i", "t", ["k"], unique=True)
        index.insert((1,), 100)
        with pytest.raises(IntegrityError):
            index.insert((1,), 101)

    def test_unique_allows_nulls(self):
        index = HashIndex("i", "t", ["k"], unique=True)
        index.insert((None,), 1)
        index.insert((None,), 2)  # SQL: NULLs don't collide
        assert len(index.lookup((None,))) == 2

    def test_ordered_range_scan(self):
        index = OrderedIndex("i", "t", ["k"])
        for position, key in enumerate([5, 1, 3, 9, 7]):
            index.insert((key,), position)
        keys = [k for k, _ in index.range_scan((3,), (7,))]
        assert keys == [(3,), (5,), (7,)]

    def test_ordered_range_exclusive(self):
        index = OrderedIndex("i", "t", ["k"])
        for key in (1, 2, 3):
            index.insert((key,), key)
        keys = [
            k
            for k, _ in index.range_scan(
                (1,), (3,), low_inclusive=False, high_inclusive=False
            )
        ]
        assert keys == [(2,)]

    def test_ordered_open_bounds(self):
        index = OrderedIndex("i", "t", ["k"])
        for key in (1, 2, 3):
            index.insert((key,), key)
        assert [k for k, _ in index.range_scan(None, (2,))] == [(1,), (2,)]
        assert [k for k, _ in index.range_scan((2,), None)] == [(2,), (3,)]

    def test_range_skips_null_keys(self):
        index = OrderedIndex("i", "t", ["k"])
        index.insert((None,), 1)
        index.insert((2,), 2)
        assert [k for k, _ in index.range_scan(None, None)] == [(2,)]

    def test_delete_keeps_sorted_structure(self):
        index = OrderedIndex("i", "t", ["k"])
        for key in (1, 2, 3):
            index.insert((key,), key)
        index.delete((2,), 2)
        assert [k for k, _ in index.range_scan(None, None)] == [(1,), (3,)]

    def test_distinct_keys(self):
        index = HashIndex("i", "t", ["k"])
        index.insert((1,), 1)
        index.insert((1,), 2)
        index.insert((2,), 3)
        assert index.distinct_keys == 2
        assert len(index) == 3


_TYPES = [
    INTEGER,
    FLOAT,
    DECIMAL,
    VARCHAR,
    DataType(TypeKind.VARCHAR, (3,)),
    BOOLEAN,
    DATE,
    TIMESTAMP,
    ANY,
]
#: Few distinct values, so keys collide (1, 1.0, True) and coercions both
#: succeed ("1" into INTEGER, a date string into DATE) and fail.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, 1.0, 1.5, -2.0]),
    st.sampled_from([Decimal("1"), Decimal("2.50")]),
    st.sampled_from(["", "1", "ab", "abcd", "true", "2024-01-02"]),
    st.just(datetime.date(2024, 1, 2)),
    st.just(datetime.datetime(2024, 1, 2, 3, 4)),
)


@st.composite
def _loads(draw):
    """A fresh table's schema (maybe keyed, maybe a unique index) + rows."""
    width = draw(st.integers(1, 3))
    key_width = draw(st.integers(0, width))
    unique = draw(st.sampled_from([None, "hash", "ordered"]))
    # ANY holds mixed types, which an ordered index cannot sort: it is
    # only ever an unindexed column (a shipped block's computed output).
    indexed = set(range(key_width)) | ({width - 1} if unique else set())
    columns = [
        Column(
            f"c{i}",
            draw(st.sampled_from(_TYPES[:-1] if i in indexed else _TYPES)),
            draw(st.booleans()),
        )
        for i in range(width)
    ]
    schema = TableSchema("t", columns, [c.name for c in columns[:key_width]])
    row = st.lists(_VALUES, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.integers(0, 9)) == 0:  # one row of the wrong width
        rows.insert(draw(st.integers(0, len(rows))), [None] * (width + 1))
    as_tuples = draw(st.booleans())
    return schema, unique, [tuple(r) if as_tuples else r for r in rows]


def _fresh_table(schema, unique):
    table = Table(schema)
    if unique is not None:
        table.create_index(
            "u", [schema.columns[-1].name], unique=True,
            ordered=unique == "ordered",
        )
    return table


def _outcome(table, fill):
    """Rows with their Python types and every index's postings, or the
    error raised."""
    try:
        fill(table)
    except Exception as error:
        return ("error", type(error), str(error))
    return (
        "rows",
        [(rid, row, tuple(map(type, row))) for rid, row in table.scan()],
        table.next_rid,
        {
            name: (
                {key: index.sorted_rids(key) for key in index._entries},
                list(index.range_scan_sorted())
                if isinstance(index, OrderedIndex)
                else None,
            )
            for name, index in table.indexes.items()
        },
    )


def _insert_each(rows):
    def fill(table):
        for row in rows:
            table.insert(row)

    return fill


def _canonical(schema, rows):
    """The fragment canonicaliser's outcome in :func:`_outcome`'s terms
    (row ``i`` of a fragment stands where RID ``i + 1`` would)."""
    try:
        fragment = Fragment.from_rows(schema.column_names, rows).canonical(
            schema
        )
    except Exception as error:
        return ("error", type(error), str(error)), None
    outcome = (
        "rows",
        [
            (rid, row, tuple(map(type, row)))
            for rid, row in enumerate(fragment.rows(), 1)
        ],
        len(rows) + 1,
        {},
    )
    return outcome, fragment


class TestBulkLoad:
    """The fragment canonicaliser against ``Table.insert`` on each row."""

    @settings(max_examples=500, deadline=None)
    @given(_loads())
    def test_matches_per_row_insert(self, load):
        schema, _, rows = load
        # Values and errors: the per-row oracle on the same columns, keyless
        # (a fragment's key never refuses a row, it only enables probes).
        keyless = TableSchema(schema.name, schema.columns)
        expected = _outcome(Table(keyless), _insert_each(rows))
        got, fragment = _canonical(schema, rows)
        if any(len(row) != len(schema.columns) for row in rows):
            # A fragment cannot hold a ragged row: it is refused before
            # any value is looked at.
            assert expected[0] == "error"
            assert got[:2] == ("error", IntegrityError)
            return
        assert got == expected
        if fragment is not None and schema.primary_key:
            # Keyed exactly when inserting each row under the key succeeds.
            keyed = _outcome(Table(schema), _insert_each(rows))[0] == "rows"
            assert (fragment.key_index() is not None) == keyed

    def test_canonical_rows_are_stored_as_given(self):
        rows = [(i, f"n{i}", i % 3) for i in range(50)]
        shipped = Fragment.from_rows(["id", "name", "grp"], rows)
        fragment = shipped.canonical(make_schema())
        assert all(a is b for a, b in zip(fragment.columns, shipped.columns))
        assert fragment.row(fragment.key_index()[(7,)]) == rows[7]

    def test_duplicate_key_names_the_first_clash(self):
        rows = [(1, "a", 1), (2, "b", 2), (1.0, "c", 3)]
        table = Table(make_schema())
        with pytest.raises(IntegrityError, match=r"violation on key \(1,\)"):
            _insert_each(rows)(table)
        # The clash the per-row insert names makes the fragment keyless.
        fragment = Fragment.from_rows(["id", "name", "grp"], rows).canonical(
            make_schema()
        )
        assert fragment.key == ("id",) and fragment.key_index() is None

    def test_loaded_ordered_index_sorts_on_first_range_scan(self):
        fragment = Fragment.from_rows(
            ["id", "name", "grp"], [(k, None, None) for k in (5, 1, 3)]
        ).canonical(make_schema())
        assert fragment._sorted is None  # sorted on the first range scan
        keys = [fragment.row(p)[0] for p in fragment.key_range((2,), None)]
        assert keys == [3, 5]
        assert [
            fragment.row(p)[0] for p in fragment.key_range(None, None)
        ] == [1, 3, 5]
        assert [
            fragment.row(p)[0] for p in fragment.key_range((1,), (5,), False, False)
        ] == [3]


class TestCatalog:
    def test_create_get_drop(self):
        catalog = Catalog("db")
        catalog.create_table(make_schema())
        assert catalog.has_table("T")
        assert catalog.get_table("t").name == "t"
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_duplicate_table(self):
        catalog = Catalog("db")
        catalog.create_table(make_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(make_schema())
        # if_not_exists variant returns existing
        table = catalog.create_table(make_schema(), if_not_exists=True)
        assert table is catalog.get_table("t")

    def test_drop_missing(self):
        catalog = Catalog("db")
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")
        catalog.drop_table("nope", if_exists=True)

    def test_stats_cached_and_invalidated(self):
        catalog = Catalog("db")
        table = catalog.create_table(make_schema())
        table.insert([1, "a", 10])
        stats1 = catalog.stats("t")
        assert stats1.row_count == 1
        table.insert([2, "b", 20])
        assert catalog.stats("t").row_count == 1  # cached
        catalog.invalidate_stats("t")
        assert catalog.stats("t").row_count == 2


class TestStatistics:
    def test_analyze_table(self):
        table = Table(make_schema())
        for i in range(10):
            table.insert([i, f"n{i % 3}", i % 2])
        stats = analyze_table(table)
        assert stats.row_count == 10
        assert stats.column("id").distinct == 10
        assert stats.column("name").distinct == 3
        assert stats.column("grp").distinct == 2
        assert stats.column("id").minimum == 0
        assert stats.column("id").maximum == 9

    def test_null_counting(self):
        stats = analyze_rows("v", ["a"], [(1,), (None,), (None,)])
        assert stats.column("a").null_count == 2
        assert stats.column("a").null_fraction(3) == pytest.approx(2 / 3)

    def test_eq_selectivity(self):
        stats = analyze_rows("v", ["a"], [(i % 4,) for i in range(100)])
        assert stats.column("a").eq_selectivity(100) == pytest.approx(0.25)

    def test_range_selectivity_histogram(self):
        stats = analyze_rows("v", ["a"], [(float(i),) for i in range(100)])
        sel = stats.column("a").range_selectivity("<", 25.0, 100)
        assert 0.15 < sel < 0.35

    def test_range_selectivity_extremes(self):
        stats = analyze_rows("v", ["a"], [(float(i),) for i in range(100)])
        assert stats.column("a").range_selectivity("<", 1000.0, 100) == 1.0
        assert stats.column("a").range_selectivity(">", 1000.0, 100) == 0.0

    def test_empty_table_stats(self):
        stats = analyze_rows("v", ["a"], [])
        assert stats.row_count == 0
        assert stats.column("a").eq_selectivity(0) == 0.0

    def test_avg_row_bytes(self):
        stats = analyze_rows("v", ["a", "b"], [(1, "hello")])
        assert stats.avg_row_bytes > 0
