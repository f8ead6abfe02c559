"""Heap tables: row storage with RIDs, constraint checks, index maintenance."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TypeVar

from repro.errors import CatalogError, IntegrityError
from repro.storage.index import HashIndex, Index, OrderedIndex
from repro.storage.schema import Row, TableSchema

T = TypeVar("T")


class Table:
    """An in-memory heap of rows addressed by integer RIDs.

    Responsibilities:

    - assign RIDs and store rows (tuples positionally matching the schema)
    - enforce the primary key (via an implicit unique index) and NOT NULL
    - keep secondary indexes in sync on every mutation

    Concurrency control is *not* handled here — the lock manager in
    :mod:`repro.concurrency` serialises access above this layer, which is
    how the real MYRIAD relied on each component DBMS's own 2PL.

    For snapshot readers (which bypass the lock manager entirely) the table
    additionally carries MVCC side state maintained by the transaction
    layer: ``versions`` maps RID → immutable chain of committed
    ``(commit_ts, value)`` entries, and ``uncommitted`` maps RID → ``(owner
    txn id, last committed value)`` while a writer's change is in flight.
    See :mod:`repro.concurrency.mvcc`.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: dict[int, Row] = {}
        self.next_rid = 1
        self.indexes: dict[str, Index] = {}
        #: RID → committed version chain (ascending commit-ts tuples).
        self.versions: dict[int, tuple] = {}
        #: RID → (writer txn id, last committed value) pending markers.
        self.uncommitted: dict[int, tuple] = {}
        #: Bumped after each new pending marker, before the heap changes:
        #: a snapshot reader that sees it move knows a writer overlapped.
        self.pending_marks = 0
        #: True while ``rows`` iterates in RID order (only an undo
        #: ``restore`` of an older RID breaks it).
        self._rid_ordered = True
        if schema.primary_key:
            self.create_index(
                f"__pk_{schema.name}", schema.primary_key, unique=True, ordered=True
            )

    # -- basic properties -------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    # -- scanning ---------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) pairs in insertion order."""
        yield from list(self.rows.items())

    def consistent_read(self, read: Callable[[], T]) -> T:
        """``read()``, repeated until no writer registered a pending marker
        while it ran.

        Writers register the marker before they touch the heap or an index
        (``pending_marks`` moves in between), so a lock-free snapshot read
        during which ``pending_marks`` stood still saw no uncommitted
        change.
        """
        while True:
            marks = self.pending_marks
            result = read()
            if self.pending_marks == marks:
                return result

    def heap_items(self) -> list[tuple[int, Row]]:
        """The live (rid, row) pairs in RID order, copied in one pass."""
        if self._rid_ordered:
            return list(self.rows.items())
        return sorted(self.rows.items())

    def heap_rows(self) -> list[Row]:
        """The live rows in RID order, copied in one pass."""
        if self._rid_ordered:
            return list(self.rows.values())
        return [row for _, row in sorted(self.rows.items())]

    def get(self, rid: int) -> Row:
        try:
            return self.rows[rid]
        except KeyError:
            raise IntegrityError(f"no row with rid {rid} in {self.name!r}") from None

    def fetch_by_key(self, key: Row) -> tuple[int, Row] | None:
        """Primary-key point lookup; None if absent or table has no PK."""
        if not self.schema.primary_key:
            return None
        index = self.indexes.get(f"__pk_{self.schema.name}")
        if index is None:  # pragma: no cover - PK index always exists
            return None
        rids = index.lookup(tuple(key))
        if not rids:
            return None
        rid = next(iter(rids))
        return rid, self.rows[rid]

    # -- mutation ----------------------------------------------------------

    def insert(
        self, values: list[object] | Row, pending_owner: object | None = None
    ) -> int:
        """Validate and insert one row; returns its RID.

        ``pending_owner`` (a transaction id) registers the pending marker
        *before* the row becomes visible in the heap, so snapshot readers
        never observe the uncommitted insert.
        """
        row = self.schema.validate_row(values)
        key = self.schema.key_of(row)
        if key is not None and any(value is None for value in key):
            raise self._null_key_error()
        rid = self.next_rid
        self.next_rid += 1
        # Insert into indexes first so unique violations abort cleanly.
        inserted: list[Index] = []
        try:
            for index in self.indexes.values():
                index.insert(self._index_key(index, row), rid)
                inserted.append(index)
        except IntegrityError:
            for index in inserted:
                index.delete(self._index_key(index, row), rid)
            raise
        if pending_owner is not None:
            # Fresh RID: committed value is "absent".
            self.uncommitted[rid] = (pending_owner, None)
            self.pending_marks += 1
        self.rows[rid] = row
        return rid

    def delete(self, rid: int) -> Row:
        """Remove a row by RID; returns the old row (for undo logging)."""
        row = self.get(rid)
        for index in self.indexes.values():
            index.delete(self._index_key(index, row), rid)
        del self.rows[rid]
        return row

    def update(self, rid: int, new_values: list[object] | Row) -> tuple[Row, Row]:
        """Replace the row at ``rid``; returns (old_row, new_row)."""
        old_row = self.get(rid)
        new_row = self.schema.validate_row(new_values)
        key = self.schema.key_of(new_row)
        if key is not None and any(value is None for value in key):
            raise self._null_key_error()
        for index in self.indexes.values():
            index.delete(self._index_key(index, old_row), rid)
        try:
            inserted: list[Index] = []
            try:
                for index in self.indexes.values():
                    index.insert(self._index_key(index, new_row), rid)
                    inserted.append(index)
            except IntegrityError:
                for index in inserted:
                    index.delete(self._index_key(index, new_row), rid)
                raise
        except IntegrityError:
            for index in self.indexes.values():  # restore old entries
                index.insert(self._index_key(index, old_row), rid)
            raise
        self.rows[rid] = new_row
        return old_row, new_row

    def restore(self, rid: int, row: Row) -> None:
        """Re-insert a row under a specific RID (transaction undo path)."""
        if rid in self.rows:
            raise IntegrityError(f"rid {rid} already present in {self.name!r}")
        for index in self.indexes.values():
            index.insert(self._index_key(index, row), rid)
        if self.rows and rid < next(reversed(self.rows)):
            self._rid_ordered = False
        self.rows[rid] = row
        self.next_rid = max(self.next_rid, rid + 1)

    def mark_pending(self, rid: int, owner: object) -> None:
        """Record the committed pre-image of ``rid`` before mutating it.

        Idempotent per RID: the first marker (set by the single uncommitted
        writer the exclusive table lock allows) wins, so a transaction
        touching the same RID repeatedly keeps the true committed value.
        """
        if rid not in self.uncommitted:
            self.uncommitted[rid] = (owner, self.rows.get(rid))
            self.pending_marks += 1

    def clear_pending(self, rid: int) -> None:
        """Drop a pending marker (after the writer resolved and undid/won)."""
        self.uncommitted.pop(rid, None)

    def truncate(self) -> None:
        """Remove all rows (keeps schema and empty indexes).

        Not MVCC-safe: version chains and pending markers are discarded,
        so concurrent snapshot readers would observe the truncation.  Only
        used by workload resets, never under concurrent traffic.
        """
        self.rows.clear()
        self.versions.clear()
        self.uncommitted.clear()
        self._rid_ordered = True
        for name, index in list(self.indexes.items()):
            klass = type(index)
            self.indexes[name] = klass(
                index.name, index.table, index.columns, index.unique
            )

    # -- indexes -----------------------------------------------------------

    def create_index(
        self,
        name: str,
        columns: list[str],
        unique: bool = False,
        ordered: bool = True,
    ) -> Index:
        """Build a new index over existing rows."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")
        for column in columns:
            self.schema.column_index(column)  # validate
        klass = OrderedIndex if ordered else HashIndex
        index = klass(name, self.name, columns, unique)
        positions = [self.schema.column_index(c) for c in columns]
        for rid, row in self.rows.items():
            index.insert(tuple(row[p] for p in positions), rid)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]

    def find_index(self, columns: list[str]) -> Index | None:
        """An index whose key is a prefix-match of ``columns``, if any."""
        wanted = [c.lower() for c in columns]
        for index in self.indexes.values():
            have = [c.lower() for c in index.columns]
            if have == wanted:
                return index
        return None

    def _index_key(self, index: Index, row: Row) -> tuple:
        positions = [self.schema.column_index(c) for c in index.columns]
        return tuple(row[p] for p in positions)

    def _null_key_error(self) -> IntegrityError:
        return IntegrityError(
            f"primary key of {self.name!r} cannot contain NULL"
        )
